// Parallel shard read path (engine/sharded_engine.h): the two
// EngineOptions::shard_lock_mode settings under real thread races. The
// stress suites are TSan targets -- N reader threads race one writer and a
// background merger per shard across index families, asserting every lookup
// returns the pre- or the post-insert answer (linearizability-lite). The
// determinism suites pin that the shared mode counts exactly the
// I/O the exclusive mode counts, and the model suite pins the lock-mode-
// aware makespan bound of the concurrent runner.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
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

using testing_util::RacingThreads;
using testing_util::ToRecords;
using testing_util::UniformKeys;

EngineOptions SmallEngineOptions(const std::string& index_name, std::size_t shards,
                                 ShardLockMode mode) {
  EngineOptions options;
  options.index_name = index_name;
  options.num_shards = shards;
  options.shard_lock_mode = mode;
  options.index.alex_max_data_node_slots = 2048;
  options.index.pgm_insert_buffer_records = 128;
  options.index.fiting_buffer_capacity = 64;
  return options;
}

// --- mode plumbing ----------------------------------------------------------

TEST(ShardLockModeTest, NamesRoundTripAndUnknownIsRejected) {
  for (ShardLockMode mode : {ShardLockMode::kExclusive, ShardLockMode::kShared}) {
    ShardLockMode parsed;
    ASSERT_TRUE(ShardLockModeFromName(ShardLockModeName(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
  ShardLockMode parsed;
  EXPECT_FALSE(ShardLockModeFromName("latch-free", &parsed));
  EXPECT_FALSE(ShardLockModeFromName("", &parsed));
  // The default mode is the historical exclusive behavior.
  EXPECT_EQ(EngineOptions{}.shard_lock_mode, ShardLockMode::kExclusive);
}

// --- stress: readers race a writer + background mergers ---------------------

// (index factory name, lock mode). The four families cover the paper's
// structural variety: block B+-tree, gapped-array ALEX, LSM-ish PGM, and the
// search-only hybrid whose inserts live in the decorator overlay.
using StressParam = std::tuple<std::string, ShardLockMode>;

class EngineConcurrencyStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(EngineConcurrencyStressTest, ReadersSeePreOrPostInsertAnswers) {
  const auto& [index_name, mode] = GetParam();
  EngineOptions options = SmallEngineOptions(index_name, 2, mode);
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
  workers.StartN(4, [&](std::size_t reader, const std::atomic<bool>& stop) -> Status {
    for (std::size_t round = 0; round < 800 && !stop.load(); ++round) {
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
  // The exclusive mode must never touch the lock-contention counters.
  if (mode == ShardLockMode::kExclusive) {
    const IoStatsSnapshot merged = engine.MergedIo();
    EXPECT_EQ(merged.read_lock_waits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    IndexesByMode, EngineConcurrencyStressTest,
    ::testing::Combine(::testing::Values("btree", "alex", "pgm", "hybrid-pgm"),
                       ::testing::Values(ShardLockMode::kExclusive, ShardLockMode::kShared)),
    [](const ::testing::TestParamInfo<StressParam>& param) {
      std::string name = std::get<0>(param.param) + "_" +
                         ShardLockModeName(std::get<1>(param.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// --- determinism: shared counts exactly what exclusive counts ---------------

void ExpectSameCountedIo(const IoStatsSnapshot& got, const IoStatsSnapshot& want,
                         const std::string& label) {
  // Field-by-field, NOT the defaulted operator==: the lock-contention
  // counters are timing-dependent by design and excluded from the pin.
  EXPECT_EQ(got.reads, want.reads) << label;
  EXPECT_EQ(got.writes, want.writes) << label;
  EXPECT_EQ(got.buffer_hits, want.buffer_hits) << label;
  EXPECT_EQ(got.buffer_misses, want.buffer_misses) << label;
  EXPECT_EQ(got.buffer_evictions, want.buffer_evictions) << label;
  EXPECT_EQ(got.buffer_writebacks, want.buffer_writebacks) << label;
  EXPECT_EQ(got.inner_nodes_visited, want.inner_nodes_visited) << label;
  EXPECT_EQ(got.leaf_nodes_visited, want.leaf_nodes_visited) << label;
}

TEST(EngineConcurrencyDeterminismTest, AllModesMatchExclusiveOnYcsbBTape) {
  // One thread, two shards, a fixed YCSB-B tape: with no thread
  // interleaving, every mode must execute the identical op sequence with
  // identical counted I/O -- the lock mode may only change timing, never
  // what work is done. (Multi-threaded insert-bearing tapes are not
  // run-to-run I/O-deterministic under ANY mode -- scheduling changes the
  // buffer-pool interleaving -- so the cross-mode pin lives on
  // deterministic executions.)
  const auto keys = MakeDataset("fb", 16000, 19);
  WorkloadSpec spec;
  spec.type = WorkloadType::kYcsbB;
  spec.bulk_keys = 6000;
  spec.operations = 3000;
  const ConcurrentWorkload w = BuildConcurrentWorkload(keys, spec, 1);

  ConcurrentRunnerConfig config;
  config.check_lookups = true;
  ConcurrentRunResult exclusive;
  {
    ShardedEngine engine(SmallEngineOptions("btree", 2, ShardLockMode::kExclusive));
    ASSERT_TRUE(RunConcurrentWorkload(&engine, w, config, &exclusive).ok());
  }
  for (ShardLockMode mode : {ShardLockMode::kShared}) {
    ShardedEngine engine(SmallEngineOptions("btree", 2, mode));
    ConcurrentRunResult result;
    ASSERT_TRUE(RunConcurrentWorkload(&engine, w, config, &result).ok());
    EXPECT_EQ(result.operations, exclusive.operations);
    ExpectSameCountedIo(result.io, exclusive.io, ShardLockModeName(mode));
    ExpectSameCountedIo(result.bulkload_io, exclusive.bulkload_io, ShardLockModeName(mode));
    EXPECT_EQ(result.stats_after.num_records, exclusive.stats_after.num_records);
    // A single thread never contends, so even the timing-dependent counters
    // are exactly zero here.
    EXPECT_EQ(result.io.read_lock_waits, 0u) << ShardLockModeName(mode);
  }
}

TEST(EngineConcurrencyDeterminismTest, ReadOnlyTapeCountsIdenticallyAcrossModes) {
  // Eight threads on a read-only YCSB-C tape with a no-eviction buffer pool:
  // each block is missed at most once and never re-fetched, so total counts
  // are interleaving-independent and must match across modes even under
  // real parallelism.
  const auto keys = MakeDataset("osm", 12000, 23);
  WorkloadSpec spec;
  spec.type = WorkloadType::kYcsbC;
  spec.bulk_keys = 6000;
  spec.operations = 4000;
  const ConcurrentWorkload w = BuildConcurrentWorkload(keys, spec, 8);

  ConcurrentRunnerConfig config;
  config.check_lookups = true;
  IoStatsSnapshot reference;
  bool have_reference = false;
  for (ShardLockMode mode : {ShardLockMode::kExclusive, ShardLockMode::kShared}) {
    EngineOptions options = SmallEngineOptions("btree", 2, mode);
    options.index.buffer_pool_blocks = 4096;  // nothing ever evicts
    ShardedEngine engine(options);
    ConcurrentRunResult result;
    ASSERT_TRUE(RunConcurrentWorkload(&engine, w, config, &result).ok());
    EXPECT_EQ(result.operations, spec.operations);
    // Thread-exact attribution (the per-thread tally, under either latch)
    // must cover the merged op-phase I/O exactly in every mode.
    IoStatsSnapshot summed;
    for (const ThreadRunResult& t : result.threads) summed += t.io;
    ExpectSameCountedIo(summed, result.io, ShardLockModeName(mode));
    if (!have_reference) {
      reference = result.io;
      have_reference = true;
    } else {
      ExpectSameCountedIo(result.io, reference, ShardLockModeName(mode));
    }
    if (mode == ShardLockMode::kExclusive) {
      EXPECT_EQ(result.io.read_lock_waits, 0u);
      // Exclusive mode never runs anything under a shared latch.
      for (const ThreadRunResult& t : result.threads) {
        for (const IoStatsSnapshot& s : t.shared_io) {
          EXPECT_EQ(s.TotalIo(), 0u);
        }
      }
    } else {
      // Shared: every read-side block fetch happened under the
      // shared latch, so the tallied shared I/O covers all thread reads.
      IoStatsSnapshot shared_total;
      for (const ThreadRunResult& t : result.threads) {
        for (const IoStatsSnapshot& s : t.shared_io) shared_total += s;
      }
      EXPECT_EQ(shared_total.TotalReads(), summed.TotalReads()) << ShardLockModeName(mode);
    }
  }
}

// --- makespan model ---------------------------------------------------------

TEST(EngineConcurrencyModelTest, SharedModeShardBoundOverlapsReaders) {
  // Hand-built result: one shard, two threads, all I/O shared-latch reads.
  // Exclusive: the shard serializes everything -> bound is the summed I/O.
  // Shared: readers overlap -> bound is exclusive leftovers (none here) plus
  // the slowest single thread's shared I/O.
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

  result.lock_mode = ShardLockMode::kExclusive;
  EXPECT_DOUBLE_EQ(result.MakespanUs(ssd), ssd.IoMicros(reads(1000)));

  result.lock_mode = ShardLockMode::kShared;
  EXPECT_DOUBLE_EQ(result.MakespanUs(ssd), ssd.IoMicros(reads(600)));

  // Mixed: 200 of the shard's blocks were written exclusively (e.g. a
  // merge); they serialize ahead of the overlapped readers.
  result.shard_io = {reads(1200)};
  IoStatsSnapshot exclusive_part = reads(200);
  EXPECT_DOUBLE_EQ(result.MakespanUs(ssd),
                   ssd.IoMicros(exclusive_part) + ssd.IoMicros(reads(600)));
}

TEST(EngineConcurrencyModelTest, ReadScalingEmergesWithSharedLocking) {
  // The tentpole's observable: a read-only tape on few shards scales with
  // threads under shared locking and cannot under exclusive locking. Run
  // one real 8-thread shared-mode tape, then evaluate the modeled I/O
  // makespan of that SAME run under both lock-mode interpretations. The
  // cpu_us term is zeroed: it is wall-clock (sanitizer builds inflate it
  // arbitrarily) while this test pins the deterministic I/O model. The
  // wall-clock-inclusive >= 3x throughput gate runs in CI perf-smoke on
  // the release bench binary.
  const auto keys = MakeDataset("fb", 12000, 29);
  WorkloadSpec spec;
  spec.type = WorkloadType::kYcsbC;
  spec.bulk_keys = 6000;
  spec.operations = 4000;
  const DiskModel ssd = DiskModel::Ssd();
  const ConcurrentWorkload w = BuildConcurrentWorkload(keys, spec, 8);

  ShardedEngine engine(SmallEngineOptions("btree", 2, ShardLockMode::kShared));
  ConcurrentRunResult result;
  ASSERT_TRUE(RunConcurrentWorkload(&engine, w, ConcurrentRunnerConfig{}, &result).ok());
  ASSERT_EQ(result.lock_mode, ShardLockMode::kShared);
  for (ThreadRunResult& t : result.threads) t.cpu_us = 0.0;

  const double shared_us = result.MakespanUs(ssd);
  result.lock_mode = ShardLockMode::kExclusive;
  const double exclusive_us = result.MakespanUs(ssd);

  // Read-only: the whole shard drains through overlapped readers, so the
  // shared bound must beat the serialized exclusive bound by well over the
  // CI gate's 3x (8 roughly even tapes -> ~8x in the limit).
  EXPECT_GT(shared_us, 0.0);
  EXPECT_GT(exclusive_us / shared_us, 3.0);
}

// --- cross-shard scan stitching under races ---------------------------------

class EngineConcurrencyScanTest : public ::testing::TestWithParam<ShardLockMode> {};

TEST_P(EngineConcurrencyScanTest, CrossShardScanPinsRelaxedGuarantee) {
  // The documented relaxed guarantee (sharded_engine.h): a cross-shard scan
  // latches one shard at a time, so racing inserts may or may not appear --
  // but the stitched result is always sorted by strictly increasing key,
  // never returns a torn record, and never loses a bulkloaded key inside
  // the returned span.
  EngineOptions options = SmallEngineOptions("btree", 2, GetParam());
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
                         ::testing::Values(ShardLockMode::kExclusive, ShardLockMode::kShared),
                         [](const ::testing::TestParamInfo<ShardLockMode>& param) {
                           return std::string(ShardLockModeName(param.param));
                         });

}  // namespace
}  // namespace liod
