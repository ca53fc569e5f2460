// Parallel shard read path (engine/sharded_engine.h): reads take the shard
// latch shared, writes take it exclusive, under real thread races. The
// stress suite is a TSan target -- four reader threads race one writer and a
// background merger per shard on every factory index, asserting every lookup
// returns the pre- or the post-insert answer (linearizability-lite). The
// determinism suite pins that parallel readers count interleaving-independent
// I/O, attributed exactly to the threads that performed it, and the model
// suite pins the concurrent runner's per-shard makespan bound. The scan and
// determinism suites run under both buffer modes: per-file pools and one
// pool shared by every shard (IndexOptions::shared_buffer_budget_blocks).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/concurrent_runner.h"
#include "engine/sharded_engine.h"
#include "storage/disk_model.h"
#include "test_util.h"
#include "workload/datasets.h"
#include "workload/workloads.h"

namespace liod {
namespace {

using testing_util::ExpectSameCountedIo;
using testing_util::RacingThreads;
using testing_util::ToRecords;
using testing_util::UniformKeys;

EngineOptions SmallEngineOptions(const std::string& index_name, std::size_t shards) {
  EngineOptions options;
  options.index_name = index_name;
  options.num_shards = shards;
  options.index.alex_max_data_node_slots = 2048;
  options.index.pgm_insert_buffer_records = 128;
  options.index.fiting_buffer_capacity = 64;
  return options;
}

// The buffer configurations the scan and determinism suites run under.
enum class BufferMode {
  kPerFile,  // the paper's per-file pools (IndexOptions::buffer_pool_blocks)
  kShared,   // one pool across every shard (shared_buffer_budget_blocks)
};

std::string BufferModeName(const ::testing::TestParamInfo<BufferMode>& param) {
  return param.param == BufferMode::kShared ? "shared" : "per_file";
}

// --- stress: readers race a writer + background mergers ---------------------

// Every factory index: the B+-tree, the learned indexes (both ALEX layouts)
// and the hybrids, whose inserts live in the decorator overlay. Readers of
// one shard overlap on its index instance whenever threads outnumber shards.
class EngineConcurrencyStressTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineConcurrencyStressTest, ReadersSeePreOrPostInsertAnswers) {
  EngineOptions options = SmallEngineOptions(GetParam(), 2);
  // Out-of-place buffering with a background drain per shard: merges race
  // the readers through the decorator's shared read path.
  options.index.update_buffer_blocks = 1;
  options.index.update_buffer_merge_mode = MergeMode::kBackground;
  ShardedEngine engine(options);

  const std::vector<Key> bulk_keys = UniformKeys(2000, 7);
  ASSERT_TRUE(engine.Bulkload(ToRecords(bulk_keys)).ok());

  // The writer inserts fresh odd keys (UniformKeys' stride leaves gaps);
  // readers may observe each one before or after it lands -- never torn.
  std::vector<Key> fresh;
  {
    std::set<Key> taken(bulk_keys.begin(), bulk_keys.end());
    Key k = 2;
    while (fresh.size() < 800) {
      k += 3;
      if (!taken.contains(k)) fresh.push_back(k);
    }
  }

  RacingThreads workers;
  workers.Start([&](const std::atomic<bool>&) -> Status {
    // Bounded, so the writer ignores the stop flag: the final verification
    // below relies on every insert having landed.
    for (const Key k : fresh) {
      LIOD_RETURN_IF_ERROR(engine.Insert(k, PayloadFor(k)));
    }
    return Status::Ok();
  });
  // Bounded like the writer: JoinAll raises the stop flag at once, so
  // readers that polled it would mostly stop before the writer got going.
  workers.StartN(4, [&](std::size_t reader, const std::atomic<bool>&) -> Status {
    for (std::size_t round = 0; round < 800; ++round) {
      // Bulkloaded keys: always found, exact payload.
      const Key bulk_key = bulk_keys[(reader * 997 + round * 31) % bulk_keys.size()];
      Payload payload = 0;
      bool found = false;
      LIOD_RETURN_IF_ERROR(engine.Lookup(bulk_key, &payload, &found));
      if (!found || payload != PayloadFor(bulk_key)) {
        return Status::Corruption("bulk key " + std::to_string(bulk_key) + " torn");
      }
      // Racing keys: pre-insert (absent) or post-insert (exact payload).
      const Key racing = fresh[(reader * 131 + round) % fresh.size()];
      found = false;
      LIOD_RETURN_IF_ERROR(engine.Lookup(racing, &payload, &found));
      if (found && payload != PayloadFor(racing)) {
        return Status::Corruption("racing key " + std::to_string(racing) + " torn");
      }
    }
    return Status::Ok();
  });
  const Status worker_status = workers.JoinAll();
  ASSERT_TRUE(worker_status.ok()) << worker_status.ToString();

  // Quiesce and verify the final state: every insert is now visible.
  ASSERT_TRUE(engine.FlushUpdates().ok());
  for (std::size_t i = 0; i < fresh.size(); i += 17) {
    Payload payload = 0;
    bool found = false;
    ASSERT_TRUE(engine.Lookup(fresh[i], &payload, &found).ok());
    ASSERT_TRUE(found) << fresh[i];
    EXPECT_EQ(payload, PayloadFor(fresh[i]));
  }
}

// Each name ends in "_shared", the latch side the racing readers take.
INSTANTIATE_TEST_SUITE_P(IndexesByMode, EngineConcurrencyStressTest,
                         ::testing::Values("btree", "fiting", "pgm", "alex", "alex-l1", "lipp",
                                           "hybrid-fiting", "hybrid-pgm", "hybrid-alex",
                                           "hybrid-lipp"),
                         [](const ::testing::TestParamInfo<std::string>& param) {
                           std::string name = param.param + "_shared";
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// --- determinism: parallel readers count what the tape dictates ------------

TEST(EngineConcurrencyDeterminismTest, ReadOnlyTapeCountsIdenticallyAcrossModes) {
  // Eight threads on a read-only YCSB-C tape with buffers that never evict:
  // each block is missed at most once and never re-fetched, so total counts
  // are interleaving-independent and must match across the two buffer modes
  // (per-file pools, one pool shared by every shard) even under real
  // parallelism.
  const auto keys = MakeDataset("osm", 12000, 23);
  WorkloadSpec spec;
  spec.type = WorkloadType::kYcsbC;
  spec.bulk_keys = 6000;
  spec.operations = 4000;
  const ConcurrentWorkload w = BuildConcurrentWorkload(keys, spec, 8);

  ConcurrentRunnerConfig config;
  config.check_lookups = true;
  IoStatsSnapshot reference;
  for (const BufferMode mode : {BufferMode::kPerFile, BufferMode::kShared}) {
    const std::string label = mode == BufferMode::kShared ? "shared pool" : "per-file pools";
    EngineOptions options = SmallEngineOptions("btree", 2);
    options.index.buffer_pool_blocks = 4096;  // nothing ever evicts
    if (mode == BufferMode::kShared) options.index.shared_buffer_budget_blocks = 4096;
    ShardedEngine engine(options);
    ConcurrentRunResult result;
    ASSERT_TRUE(RunConcurrentWorkload(&engine, w, config, &result).ok()) << label;
    EXPECT_EQ(result.operations, spec.operations) << label;
    EXPECT_EQ(result.io.TotalEvictions(), 0u) << label;
    // Thread-exact attribution (the per-thread tally) must cover the merged
    // op-phase I/O exactly.
    IoStatsSnapshot summed;
    for (const ThreadRunResult& t : result.threads) summed += t.io;
    ExpectSameCountedIo(summed, result.io, label);
    if (mode == BufferMode::kPerFile) {
      reference = result.io;
    } else {
      ExpectSameCountedIo(result.io, reference, label);
    }
    // Every read-side block fetch happened under the shared latch, so the
    // tallied shared I/O covers all thread reads.
    IoStatsSnapshot shared_total;
    for (const ThreadRunResult& t : result.threads) {
      for (const IoStatsSnapshot& s : t.shared_io) shared_total += s;
    }
    EXPECT_EQ(shared_total.TotalReads(), summed.TotalReads()) << label;
  }
}

// --- makespan model ---------------------------------------------------------

TEST(EngineConcurrencyModelTest, SharedModeShardBoundOverlapsReaders) {
  // Hand-built result: one shard, two threads, all I/O shared-latch reads.
  // Readers overlap, so the bound is the exclusive leftovers (none here)
  // plus the slowest single thread's shared I/O -- not the summed I/O.
  const DiskModel ssd = DiskModel::Ssd();
  ConcurrentRunResult result;
  result.operations = 100;
  result.threads.resize(2);
  auto reads = [](std::uint64_t n) {
    IoStatsSnapshot s;
    s.reads[static_cast<int>(FileClass::kLeaf)] = n;
    return s;
  };
  result.threads[0].io = reads(600);
  result.threads[0].shared_io = {reads(600)};
  result.threads[1].io = reads(400);
  result.threads[1].shared_io = {reads(400)};
  result.shard_io = {reads(1000)};
  EXPECT_DOUBLE_EQ(result.MakespanUs(ssd), ssd.IoMicros(reads(600)));

  // Mixed: 200 of the shard's blocks were written exclusively (e.g. a
  // merge); they serialize ahead of the overlapped readers.
  result.shard_io = {reads(1200)};
  IoStatsSnapshot exclusive_part = reads(200);
  EXPECT_DOUBLE_EQ(result.MakespanUs(ssd),
                   ssd.IoMicros(exclusive_part) + ssd.IoMicros(reads(600)));
}

TEST(EngineConcurrencyModelTest, ReadScalingEmergesWithSharedLocking) {
  // A read-only tape on few shards scales with threads in the model because
  // readers share the shard latch. Run one real 8-thread tape and compare
  // the modeled I/O makespan of that run with the serialized bound, every
  // shard draining all of its I/O back to back. The cpu_us term is zeroed:
  // it is wall-clock (sanitizer builds inflate it arbitrarily) while this
  // test pins the deterministic I/O model. The wall-clock-inclusive >= 3x
  // throughput gate runs in CI perf-smoke on the release bench binary.
  const auto keys = MakeDataset("fb", 12000, 29);
  WorkloadSpec spec;
  spec.type = WorkloadType::kYcsbC;
  spec.bulk_keys = 6000;
  spec.operations = 4000;
  const DiskModel ssd = DiskModel::Ssd();
  const ConcurrentWorkload w = BuildConcurrentWorkload(keys, spec, 8);

  ShardedEngine engine(SmallEngineOptions("btree", 2));
  ConcurrentRunResult result;
  ASSERT_TRUE(RunConcurrentWorkload(&engine, w, ConcurrentRunnerConfig{}, &result).ok());
  for (ThreadRunResult& t : result.threads) t.cpu_us = 0.0;

  const double shared_us = result.MakespanUs(ssd);
  double serialized_us = 0.0;
  for (const IoStatsSnapshot& shard : result.shard_io) {
    serialized_us = std::max(serialized_us, ssd.IoMicros(shard));
  }

  // Read-only: the whole shard drains through overlapped readers, so the
  // shared bound must beat the serialized bound by well over the CI gate's
  // 3x (8 roughly even tapes -> ~8x in the limit).
  EXPECT_GT(shared_us, 0.0);
  EXPECT_GT(serialized_us / shared_us, 3.0);
}

// --- cross-shard scan stitching under races ---------------------------------

// Under BufferMode::kShared the one pool is small enough to evict, so one
// shard's inserts and the other's scan segments contend for its frames.
class EngineConcurrencyScanTest : public ::testing::TestWithParam<BufferMode> {};

TEST_P(EngineConcurrencyScanTest, CrossShardScanPinsRelaxedGuarantee) {
  // The documented relaxed guarantee (sharded_engine.h): a cross-shard scan
  // latches one shard at a time, so racing inserts may or may not appear --
  // but the stitched result is always sorted by strictly increasing key,
  // never returns a torn record, and never loses a bulkloaded key inside
  // the returned span.
  EngineOptions options = SmallEngineOptions("btree", 2);
  if (GetParam() == BufferMode::kShared) options.index.shared_buffer_budget_blocks = 64;
  ShardedEngine engine(options);
  const std::size_t n = 3000;
  std::vector<Key> even;
  for (std::size_t i = 0; i < n; ++i) even.push_back(1000 + 2 * i);
  ASSERT_TRUE(engine.Bulkload(ToRecords(even)).ok());
  const Key boundary = engine.shard_lower_bounds()[1];

  RacingThreads workers;
  workers.Start([&](const std::atomic<bool>& stop) -> Status {
    // Odd keys straddling the shard boundary: every cross-shard scan races
    // inserts on both sides of the stitch point.
    for (std::size_t i = 0; i < n && !stop.load(); ++i) {
      const Key k = 1001 + 2 * ((i * 7919) % n);
      LIOD_RETURN_IF_ERROR(engine.Insert(k, PayloadFor(k)));
    }
    return Status::Ok();
  });

  std::vector<Record> out;
  for (int round = 0; round < 300; ++round) {
    // Start below the boundary so the scan stitches shard 0 -> shard 1.
    const Key start = std::max<Key>(1000, boundary - 100 - 2 * (round % 50));
    ASSERT_TRUE(engine.Scan(start, 120, &out).ok());
    ASSERT_FALSE(out.empty());
    std::set<Key> returned;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(out[i - 1].key, out[i].key) << "round " << round;
      }
      ASSERT_EQ(out[i].payload, PayloadFor(out[i].key)) << "round " << round;
      returned.insert(out[i].key);
    }
    // No bulkloaded (even) key inside the returned span may be missing:
    // inserts only add keys, and each per-shard segment is atomic.
    const Key first_even = start + (start % 2);
    for (Key k = first_even; k <= out.back().key; k += 2) {
      ASSERT_TRUE(returned.contains(k)) << "round " << round << " missing " << k;
    }
  }
  const Status worker_status = workers.JoinAll();
  ASSERT_TRUE(worker_status.ok()) << worker_status.ToString();
}

INSTANTIATE_TEST_SUITE_P(Modes, EngineConcurrencyScanTest,
                         ::testing::Values(BufferMode::kPerFile, BufferMode::kShared),
                         BufferModeName);

}  // namespace
}  // namespace liod
