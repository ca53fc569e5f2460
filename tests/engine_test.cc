#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_factory.h"
#include "engine/concurrent_runner.h"
#include "engine/sharded_engine.h"
#include "recovery/durable_store.h"
#include "test_util.h"
#include "workload/datasets.h"
#include "workload/workloads.h"

namespace liod {
namespace {

std::vector<Record> MakeRecords(const std::vector<Key>& keys) {
  std::vector<Record> records;
  records.reserve(keys.size());
  for (Key k : keys) records.push_back(Record{k, PayloadFor(k)});
  return records;
}

EngineOptions SmallEngineOptions(const std::string& index_name, std::size_t shards) {
  EngineOptions options;
  options.index_name = index_name;
  options.num_shards = shards;
  options.index.alex_max_data_node_slots = 2048;
  options.index.pgm_insert_buffer_records = 128;
  options.index.fiting_buffer_capacity = 64;
  return options;
}

// --- ShardedEngine --------------------------------------------------------

TEST(ShardedEngine, PartitionsEquallyAndRoutesKeys) {
  const auto keys = MakeDataset("fb", 10000, 1);
  ShardedEngine engine(SmallEngineOptions("btree", 4));
  ASSERT_TRUE(engine.Bulkload(MakeRecords(keys)).ok());

  ASSERT_EQ(engine.num_shards(), 4u);
  const auto& bounds = engine.shard_lower_bounds();
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_EQ(bounds[0], kMinKey);
  for (std::size_t i = 1; i < bounds.size(); ++i) EXPECT_GT(bounds[i], bounds[i - 1]);
  // Boundaries are cut from the sorted bulkload set at equal counts.
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(bounds[i], keys[i * keys.size() / 4]);
    EXPECT_EQ(engine.ShardFor(bounds[i]), i);
    EXPECT_EQ(engine.ShardFor(bounds[i] - 1), i - 1);
  }
  // Every shard got its slice; the merged count is the whole set.
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    const std::uint64_t records = engine.shard(s)->GetIndexStats().num_records;
    EXPECT_EQ(records, keys.size() / 4);
    total += records;
  }
  EXPECT_EQ(total, keys.size());
  EXPECT_EQ(engine.MergedStats().num_records, keys.size());

  // Lookups route through the boundaries and all hit.
  for (std::size_t i = 0; i < keys.size(); i += 137) {
    Payload payload = 0;
    bool found = false;
    ASSERT_TRUE(engine.Lookup(keys[i], &payload, &found).ok());
    ASSERT_TRUE(found) << "key " << keys[i];
    EXPECT_EQ(payload, PayloadFor(keys[i]));
  }
}

TEST(ShardedEngine, ClampsShardCountToRecordCount) {
  const std::vector<Key> keys = {10, 20, 30};
  ShardedEngine engine(SmallEngineOptions("btree", 8));
  ASSERT_TRUE(engine.Bulkload(MakeRecords(keys)).ok());
  EXPECT_EQ(engine.num_shards(), 3u);
}

TEST(ShardedEngine, InsertsRouteBeyondBulkloadRange) {
  const auto keys = MakeDataset("ycsb", 4000, 2);
  ShardedEngine engine(SmallEngineOptions("btree", 3));
  ASSERT_TRUE(engine.Bulkload(MakeRecords(keys)).ok());

  // Below the first bulk key -> shard 0; above the last -> last shard; into
  // the first gap in the middle of the keyspace -> the owning shard.
  std::vector<Key> fresh;
  if (keys.front() > 0) fresh.push_back(keys.front() - 1);
  fresh.push_back(keys.back() + 1000);
  for (std::size_t i = keys.size() / 2; i + 1 < keys.size(); ++i) {
    if (keys[i + 1] > keys[i] + 1) {
      fresh.push_back(keys[i] + 1);
      break;
    }
  }
  for (Key k : fresh) {
    ASSERT_TRUE(engine.Insert(k, PayloadFor(k)).ok());
    Payload payload = 0;
    bool found = false;
    ASSERT_TRUE(engine.Lookup(k, &payload, &found).ok());
    EXPECT_TRUE(found) << "key " << k;
    EXPECT_EQ(payload, PayloadFor(k));
  }
  EXPECT_EQ(engine.MergedStats().num_records, keys.size() + fresh.size());
}

TEST(ShardedEngine, ReadModifyWriteUpdatesUnderOneLock) {
  const auto keys = MakeDataset("ycsb", 2000, 3);
  ShardedEngine engine(SmallEngineOptions("btree", 2));
  ASSERT_TRUE(engine.Bulkload(MakeRecords(keys)).ok());

  bool found = false;
  ASSERT_TRUE(engine.ReadModifyWrite(keys[100], 777, &found).ok());
  EXPECT_TRUE(found);
  Payload payload = 0;
  ASSERT_TRUE(engine.Lookup(keys[100], &payload, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(payload, 777u);
}

TEST(ShardedEngine, CrossShardScanMatchesSingleIndex) {
  const auto keys = MakeDataset("fb", 6000, 4);
  const auto records = MakeRecords(keys);

  IndexOptions options;
  auto reference = MakeIndex("btree", options);
  ASSERT_TRUE(reference->Bulkload(records).ok());
  ShardedEngine engine(SmallEngineOptions("btree", 4));
  ASSERT_TRUE(engine.Bulkload(records).ok());

  std::vector<Key> starts;
  for (std::size_t i = 0; i < keys.size(); i += 571) starts.push_back(keys[i]);
  // Starts just below each shard boundary force boundary stitching.
  for (std::size_t s = 1; s < engine.num_shards(); ++s) {
    starts.push_back(engine.shard_lower_bounds()[s] - 1);
  }
  starts.push_back(keys.back() - 1);  // runs off the end of the last shard

  std::vector<Record> expected, got;
  for (Key start : starts) {
    ASSERT_TRUE(reference->Scan(start, 200, &expected).ok());
    ASSERT_TRUE(engine.Scan(start, 200, &got).ok());
    EXPECT_EQ(got, expected) << "scan from " << start;
  }
}

TEST(ShardedEngine, MergedIoCountsAllShards) {
  const auto keys = MakeDataset("ycsb", 4000, 5);
  ShardedEngine engine(SmallEngineOptions("btree", 4));
  ASSERT_TRUE(engine.Bulkload(MakeRecords(keys)).ok());
  engine.DropCaches();

  const IoStatsSnapshot before = engine.MergedIo();
  IoStatsSnapshot attributed;
  for (std::size_t i = 0; i < keys.size(); i += 41) {
    Payload payload = 0;
    bool found = false;
    ASSERT_TRUE(engine.Lookup(keys[i], &payload, &found, &attributed).ok());
  }
  const IoStatsSnapshot delta = engine.MergedIo() - before;
  EXPECT_GT(delta.TotalReads(), 0u);
  // The per-call attribution covers exactly the merged counter movement.
  EXPECT_EQ(attributed, delta);
}

TEST(ShardedEngine, RejectsUnknownIndexAndUnsortedInput) {
  ShardedEngine bad_name(SmallEngineOptions("nonsense", 2));
  EXPECT_FALSE(bad_name.Bulkload(MakeRecords({1, 2, 3})).ok());

  ShardedEngine unsorted(SmallEngineOptions("btree", 2));
  const std::vector<Record> records = {{5, 6}, {3, 4}};
  EXPECT_EQ(unsorted.Bulkload(records).code(), Status::Code::kInvalidArgument);

  ShardedEngine not_loaded(SmallEngineOptions("btree", 1));
  Payload payload = 0;
  bool found = false;
  EXPECT_EQ(not_loaded.Lookup(1, &payload, &found).code(),
            Status::Code::kFailedPrecondition);
}

TEST(ShardedEngine, RejectsBlockSizesOutsideTheContract) {
  // IndexOptions::block_size must be a power of two >= 512: every index
  // sizes its nodes from it. The engine refuses anything else before it
  // builds a shard, on both set-up paths.
  const std::vector<Record> records = MakeRecords(MakeDataset("fb", 2000, 5));
  for (const std::size_t block_size : {0, 256, 1000}) {
    EngineOptions options = SmallEngineOptions("btree", 2);
    options.index.block_size = block_size;
    ShardedEngine fresh(options);
    EXPECT_EQ(fresh.Bulkload(records).code(), Status::Code::kInvalidArgument) << block_size;
    EXPECT_EQ(fresh.num_shards(), 0u) << block_size;

    options.index.durability = DurabilityPolicy::kGroupCommit;
    DurableStore store(4096);
    ShardedEngine recovered(options);
    EXPECT_EQ(recovered.RecoverFrom(&store, records).code(), Status::Code::kInvalidArgument)
        << block_size;
    EXPECT_EQ(recovered.num_shards(), 0u) << block_size;
  }
}

// --- ConcurrentRunner -----------------------------------------------------

// --- Cross-shard shared buffer budget -------------------------------------

TEST(ShardedEngineSharedBuffer, SpansShardsAndStaysCorrect) {
  // One 64-frame budget over 4 shards, write-back on: shard A's miss can
  // evict (and write back) shard B's dirty frame. Answers must be identical
  // to the unbuffered configuration.
  const auto keys = MakeDataset("fb", 12000, 3);
  EngineOptions options = SmallEngineOptions("btree", 4);
  options.index.shared_buffer_budget_blocks = 64;
  options.index.buffer_write_back = true;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.Bulkload(MakeRecords(keys)).ok());

  for (std::size_t i = 0; i < keys.size(); i += 97) {
    Payload payload = 0;
    bool found = false;
    ASSERT_TRUE(engine.Lookup(keys[i], &payload, &found).ok());
    ASSERT_TRUE(found) << keys[i];
    EXPECT_EQ(payload, PayloadFor(keys[i]));
  }
  // Updates routed to every shard, then flushed: the deferred writes reach
  // the devices and are tallied as write-backs.
  for (std::size_t i = 0; i < keys.size(); i += 53) {
    ASSERT_TRUE(engine.Insert(keys[i], keys[i] + 1).ok());
  }
  ASSERT_TRUE(engine.FlushBuffers().ok());
  const IoStatsSnapshot merged = engine.MergedIo();
  EXPECT_GT(merged.TotalWrites(), 0u);
  EXPECT_EQ(merged.TotalWrites(), merged.TotalWritebacks());
  for (std::size_t i = 0; i < keys.size(); i += 53) {
    Payload payload = 0;
    bool found = false;
    ASSERT_TRUE(engine.Lookup(keys[i], &payload, &found).ok());
    ASSERT_TRUE(found);
    EXPECT_EQ(payload, keys[i] + 1);
  }
}

TEST(ShardedEngineSharedBuffer, ConcurrentYcsbARunsGreenUnderSharedWriteBack) {
  // The TSan target: 4 client threads x 4 shards hammering one shared
  // write-back pool. check_lookups makes lost updates or torn frames fail
  // loudly; exact I/O is schedule-dependent, but conservation laws are not.
  const auto keys = MakeDataset("osm", 16000, 9);
  EngineOptions options = SmallEngineOptions("btree", 4);
  options.index.shared_buffer_budget_blocks = 32;
  options.index.buffer_write_back = true;
  ShardedEngine engine(options);

  WorkloadSpec spec;
  spec.type = WorkloadType::kYcsbA;
  spec.operations = 8000;
  spec.seed = 11;
  const ConcurrentWorkload w = BuildConcurrentWorkload(keys, spec, 4);

  ConcurrentRunnerConfig config;
  config.check_lookups = true;
  ConcurrentRunResult result;
  ASSERT_TRUE(RunConcurrentWorkload(&engine, w, config, &result).ok());
  EXPECT_EQ(result.operations, 8000u);

  const IoStatsSnapshot& io = result.io;
  // After the runner's end-of-run flush nothing is dirty, so every counted
  // write was a write-back (write-back mode never writes through).
  EXPECT_EQ(io.TotalWrites(), io.TotalWritebacks());
  // The shared pool never exceeds its budget.
  EXPECT_LE(engine.shard(0)->buffer_manager().cached_frames(), 32u);
  // Zipfian updates through a 32-frame pool must coalesce at least some
  // writes: fewer device writes than update operations.
  EXPECT_LT(io.TotalWrites(), 4000u);
}

TEST(ShardedEngineSharedBuffer, AllShardsShareOneManager) {
  const auto keys = MakeDataset("fb", 4000, 5);
  EngineOptions options = SmallEngineOptions("btree", 3);
  options.index.shared_buffer_budget_blocks = 16;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.Bulkload(MakeRecords(keys)).ok());
  BufferManager* manager = &engine.shard(0)->buffer_manager();
  for (std::size_t s = 1; s < engine.num_shards(); ++s) {
    EXPECT_EQ(&engine.shard(s)->buffer_manager(), manager);
  }
}

TEST(ConcurrentRunner, TapesPartitionOperationsAndInserts) {
  const auto keys = MakeDataset("fb", 12000, 21);
  WorkloadSpec spec;
  spec.type = WorkloadType::kWriteHeavy;
  spec.bulk_keys = 3000;
  spec.operations = 5001;  // odd on purpose: remainder ops spread over threads
  const ConcurrentWorkload w = BuildConcurrentWorkload(keys, spec, 4);

  ASSERT_EQ(w.thread_ops.size(), 4u);
  std::size_t total = 0;
  std::set<Key> inserted;
  std::size_t insert_count = 0;
  for (const auto& tape : w.thread_ops) {
    total += tape.size();
    for (const WorkloadOp& op : tape) {
      if (op.kind == WorkloadOp::Kind::kInsert) {
        inserted.insert(op.key);
        ++insert_count;
      }
    }
  }
  EXPECT_EQ(total, spec.operations);
  // Insert keys are dealt disjointly across threads.
  EXPECT_EQ(inserted.size(), insert_count);

  // Same spec, same thread count: byte-identical tapes (cross-run
  // determinism of the DeriveSeed-derived streams).
  const ConcurrentWorkload again = BuildConcurrentWorkload(keys, spec, 4);
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(again.thread_ops[t], w.thread_ops[t]);
}

TEST(ConcurrentRunner, SynthesizedInsertKeysStayDisjointAcrossThreads) {
  // Exhaust the insert pool so every thread must synthesize keys beyond the
  // dataset range; synthesis is strided by thread, so tapes stay disjoint.
  const auto keys = MakeDataset("ycsb", 3000, 22);
  WorkloadSpec spec;
  spec.type = WorkloadType::kWriteOnly;
  spec.bulk_keys = 1000;
  spec.operations = 6000;  // pool holds only 2000 fresh keys
  const ConcurrentWorkload w = BuildConcurrentWorkload(keys, spec, 3);

  std::set<Key> inserted;
  std::size_t insert_count = 0;
  for (const auto& tape : w.thread_ops) {
    for (const WorkloadOp& op : tape) {
      ASSERT_EQ(op.kind, WorkloadOp::Kind::kInsert);
      inserted.insert(op.key);
      ++insert_count;
    }
  }
  EXPECT_EQ(insert_count, spec.operations);
  EXPECT_EQ(inserted.size(), insert_count) << "no cross-thread key collisions";
}

class ConcurrentSmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ConcurrentSmokeTest, FourThreadsTwoShardsRunGreen) {
  const auto keys = MakeDataset("fb", 16000, 31);
  for (WorkloadType type : YcsbWorkloadTypes()) {
    WorkloadSpec spec;
    spec.type = type;
    spec.bulk_keys = 6000;
    spec.operations = 2000;
    spec.scan_length = 10;
    const ConcurrentWorkload w = BuildConcurrentWorkload(keys, spec, 4);

    ShardedEngine engine(SmallEngineOptions(GetParam(), 2));
    ConcurrentRunnerConfig config;
    config.check_lookups = true;  // tapes only read keys they know are live
    ConcurrentRunResult result;
    ASSERT_TRUE(RunConcurrentWorkload(&engine, w, config, &result).ok())
        << GetParam() << " on " << WorkloadTypeName(type);
    EXPECT_EQ(result.operations, spec.operations);
    EXPECT_EQ(result.threads.size(), 4u);

    // Per-thread attribution covers the merged op-phase I/O exactly. Only
    // the counted fields: a read that blocks on a writer counts a
    // read_lock_waits on the shard, which no thread's tally carries.
    IoStatsSnapshot summed;
    for (const ThreadRunResult& t : result.threads) summed += t.io;
    testing_util::ExpectSameCountedIo(summed, result.io, WorkloadTypeName(type));

    const double ssd = result.ThroughputOps(DiskModel::Ssd());
    const double hdd = result.ThroughputOps(DiskModel::Hdd());
    EXPECT_GT(hdd, 0.0);
    EXPECT_GT(ssd, hdd);
  }
}

INSTANTIATE_TEST_SUITE_P(Indexes, ConcurrentSmokeTest,
                         ::testing::Values("btree", "alex", "pgm"),
                         [](const ::testing::TestParamInfo<std::string>& param) {
                           return param.param;
                         });

TEST(ConcurrentRunner, RecordsPerThreadSamples) {
  const auto keys = MakeDataset("ycsb", 8000, 41);
  WorkloadSpec spec;
  spec.type = WorkloadType::kYcsbC;
  spec.operations = 1200;
  const ConcurrentWorkload w = BuildConcurrentWorkload(keys, spec, 3);

  ShardedEngine engine(SmallEngineOptions("btree", 3));
  ConcurrentRunnerConfig config;
  config.record_samples = true;
  ConcurrentRunResult result;
  ASSERT_TRUE(RunConcurrentWorkload(&engine, w, config, &result).ok());
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(result.threads[t].samples.size(), w.thread_ops[t].size());
  }
  const DiskModel hdd = DiskModel::Hdd();
  const double p50 = result.LatencyPercentileUs(0.5, hdd);
  const double p99 = result.LatencyPercentileUs(0.99, hdd);
  EXPECT_GT(p50, 0.0);
  EXPECT_GE(p99, p50);
}

TEST(ConcurrentRunner, OneByOneThroughputIsThePaperFormula) {
  // The paper figures run one thread on one shard. With write-through and no
  // update buffer nothing is flushed after the ops, so modeled throughput is
  // exactly ops / (CPU + modeled I/O), the formula the figures have always
  // used: a change to the makespan model must not move them.
  const auto keys = MakeDataset("fb", 12000, 17);
  WorkloadSpec spec;
  spec.type = WorkloadType::kBalanced;
  spec.bulk_keys = 6000;
  spec.operations = 3000;
  const ConcurrentWorkload w = BuildConcurrentWorkload(keys, spec, 1);
  for (const char* name : {"btree", "alex", "pgm"}) {
    ShardedEngine engine(SmallEngineOptions(name, 1));
    ConcurrentRunResult result;
    ASSERT_TRUE(RunConcurrentWorkload(&engine, w, {}, &result).ok()) << name;
    ASSERT_EQ(result.threads.size(), 1u);
    for (const DiskModel& model : {DiskModel::Hdd(), DiskModel::Ssd()}) {
      const double formula =
          static_cast<double>(result.operations) /
          ((result.threads[0].cpu_us + model.IoMicros(result.io)) / 1e6);
      EXPECT_DOUBLE_EQ(result.ThroughputOps(model), formula) << name << " " << model.name;
    }
  }
}

}  // namespace
}  // namespace liod
