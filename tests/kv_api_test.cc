// The unified batch Request/Response surface (kv/request.h, kv/execute.h,
// ShardedEngine::Execute): batch answers must equal per-op answers, batch
// execution on one shard must count bit-identical I/O to per-op execution,
// hard failures surface after the whole batch ran, and the engine's
// RecoverFrom rebuilds a crashed engine that answers the committed history.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_factory.h"
#include "engine/sharded_engine.h"
#include "kv/execute.h"
#include "kv/request.h"
#include "recovery/durable_store.h"
#include "test_util.h"
#include "workload/workloads.h"

namespace liod {
namespace {

using testing_util::ToRecords;
using testing_util::UniformKeys;

// --- vocabulary -------------------------------------------------------------

TEST(KvRequestTest, OpKindPredicates) {
  EXPECT_FALSE(kv::OpKindIsWrite(kv::OpKind::kLookup));
  EXPECT_FALSE(kv::OpKindIsWrite(kv::OpKind::kScan));
  EXPECT_TRUE(kv::OpKindIsWrite(kv::OpKind::kInsert));
  EXPECT_TRUE(kv::OpKindIsWrite(kv::OpKind::kDelete));
  EXPECT_TRUE(kv::OpKindIsWrite(kv::OpKind::kReadModifyWrite));

  // The wire encoding is append-only: exactly the five kinds are valid bytes.
  for (std::uint8_t raw = 0; raw <= 4; ++raw) EXPECT_TRUE(kv::OpKindValid(raw));
  EXPECT_FALSE(kv::OpKindValid(5));
  EXPECT_FALSE(kv::OpKindValid(0xff));
}

TEST(KvRequestTest, ResponseResetKeepsRecordCapacity) {
  kv::Response response;
  response.code = Status::Code::kNotFound;
  response.found = true;
  response.payload = 7;
  response.records.resize(64);
  const std::size_t capacity = response.records.capacity();
  response.Reset();
  EXPECT_EQ(response.code, Status::Code::kOk);
  EXPECT_FALSE(response.found);
  EXPECT_EQ(response.payload, 0u);
  EXPECT_TRUE(response.records.empty());
  EXPECT_EQ(response.records.capacity(), capacity);
}

// --- ExecuteOnIndex: the one per-op dispatch --------------------------------

TEST(ExecuteOnIndexTest, MixedBatchSemantics) {
  const auto keys = UniformKeys(2000, 11);
  const auto records = ToRecords(keys);
  IndexOptions options;
  auto index = MakeIndex("btree", options);
  ASSERT_TRUE(index->Bulkload(records).ok());

  kv::RequestBatch batch;
  batch.AddLookup(keys[100]);                      // hit
  batch.AddLookup(keys[100] + 1);                  // miss (keys are unique)
  batch.AddInsert(keys[200], 999);                 // upsert over existing
  batch.AddLookup(keys[200]);                      // sees the upsert
  batch.AddReadModifyWrite(keys[300], 888);        // reads old, writes new
  batch.AddLookup(keys[300]);                      // sees the rmw
  batch.AddScan(keys[400], 10);                    // 10 records from keys[400]
  batch.AddScan(keys[0], 0);                       // invalid: zero-length scan
  batch.responses.resize(batch.requests.size());

  const Status status =
      kv::ExecuteOnIndex(index.get(), batch.requests, batch.responses);
  // The zero-length scan is the only hard failure in the batch.
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);

  EXPECT_EQ(batch.responses[0].code, Status::Code::kOk);
  EXPECT_TRUE(batch.responses[0].found);
  EXPECT_EQ(batch.responses[0].payload, PayloadFor(keys[100]));

  EXPECT_EQ(batch.responses[1].code, Status::Code::kNotFound);
  EXPECT_FALSE(batch.responses[1].found);

  EXPECT_EQ(batch.responses[2].code, Status::Code::kOk);
  EXPECT_EQ(batch.responses[3].payload, 999u);

  EXPECT_EQ(batch.responses[4].code, Status::Code::kOk);
  EXPECT_TRUE(batch.responses[4].found);
  EXPECT_EQ(batch.responses[4].payload, PayloadFor(keys[300]));  // value BEFORE
  EXPECT_EQ(batch.responses[5].payload, 888u);                   // value AFTER

  ASSERT_EQ(batch.responses[6].records.size(), 10u);
  EXPECT_EQ(batch.responses[6].records.front().key, keys[400]);
  for (std::size_t i = 1; i < 10; ++i) {
    EXPECT_LT(batch.responses[6].records[i - 1].key, batch.responses[6].records[i].key);
  }

  EXPECT_EQ(batch.responses[7].code, Status::Code::kInvalidArgument);
}

TEST(ExecuteOnIndexTest, HardFailureDoesNotStopTheBatch) {
  const auto records = ToRecords(UniformKeys(500, 12));
  IndexOptions options;  // no update buffer, no durability => Delete unimplemented
  auto index = MakeIndex("btree", options);
  ASSERT_TRUE(index->Bulkload(records).ok());

  kv::RequestBatch batch;
  batch.AddDelete(records[0].key);        // hard failure (kUnimplemented)
  batch.AddLookup(records[1].key);        // must still run
  batch.responses.resize(batch.requests.size());

  const Status status =
      kv::ExecuteOnIndex(index.get(), batch.requests, batch.responses);
  EXPECT_EQ(status.code(), Status::Code::kUnimplemented);
  EXPECT_EQ(batch.responses[0].code, Status::Code::kUnimplemented);
  // The later op ran anyway: every request is attempted.
  EXPECT_EQ(batch.responses[1].code, Status::Code::kOk);
  EXPECT_TRUE(batch.responses[1].found);
}

TEST(ExecuteOnIndexTest, NotFoundIsAnAnswerNotAFailure) {
  const auto records = ToRecords(UniformKeys(100, 13));
  IndexOptions options;
  auto index = MakeIndex("btree", options);
  ASSERT_TRUE(index->Bulkload(records).ok());

  kv::RequestBatch batch;
  batch.AddLookup(records[0].key + 1);
  batch.AddLookup(records[50].key + 1);
  batch.responses.resize(batch.requests.size());
  EXPECT_TRUE(kv::ExecuteOnIndex(index.get(), batch.requests, batch.responses).ok());
  EXPECT_EQ(batch.responses[0].code, Status::Code::kNotFound);
  EXPECT_EQ(batch.responses[1].code, Status::Code::kNotFound);
}

// --- ShardedEngine::Execute -------------------------------------------------

EngineOptions SmallEngine(std::size_t shards) {
  EngineOptions options;
  options.index_name = "btree";
  options.num_shards = shards;
  return options;
}

TEST(EngineExecuteTest, RejectsUnreadyEngine) {
  ShardedEngine engine(SmallEngine(2));
  kv::RequestBatch batch;
  batch.AddLookup(42);
  EXPECT_EQ(engine.Execute(batch).code(), Status::Code::kFailedPrecondition);
}

TEST(EngineExecuteTest, EmptyBatchIsOk) {
  const auto records = ToRecords(UniformKeys(200, 14));
  ShardedEngine engine(SmallEngine(2));
  ASSERT_TRUE(engine.Bulkload(records).ok());
  kv::RequestBatch batch;
  EXPECT_TRUE(engine.Execute(batch).ok());
  EXPECT_TRUE(batch.responses.empty());
}

TEST(EngineExecuteTest, BatchAnswersEqualPerOpAnswers) {
  const auto keys = UniformKeys(4000, 15);
  const auto records = ToRecords(keys);

  // Two identical engines: one driven through a multi-op batch, one through
  // the per-op wrappers in the same order. Answers must match exactly.
  ShardedEngine batched(SmallEngine(4));
  ShardedEngine individual(SmallEngine(4));
  ASSERT_TRUE(batched.Bulkload(records).ok());
  ASSERT_TRUE(individual.Bulkload(records).ok());

  kv::RequestBatch batch;
  for (std::size_t i = 0; i < 200; ++i) {
    const Key key = keys[(i * 17) % keys.size()];
    switch (i % 4) {
      case 0: batch.AddLookup(key); break;
      case 1: batch.AddInsert(key, key + 5); break;
      case 2: batch.AddScan(key, 8); break;
      default: batch.AddReadModifyWrite(key, key + 9); break;
    }
  }
  ASSERT_TRUE(batched.Execute(batch).ok());
  ASSERT_EQ(batch.responses.size(), batch.requests.size());

  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    const kv::Request& req = batch.requests[i];
    const kv::Response& got = batch.responses[i];
    switch (req.kind) {
      case kv::OpKind::kLookup: {
        Payload payload = 0;
        bool found = false;
        ASSERT_TRUE(individual.Lookup(req.key, &payload, &found).ok());
        EXPECT_EQ(got.found, found) << "op " << i;
        if (found) {
          EXPECT_EQ(got.payload, payload) << "op " << i;
        }
        EXPECT_EQ(got.code,
                  found ? Status::Code::kOk : Status::Code::kNotFound);
        break;
      }
      case kv::OpKind::kInsert:
        ASSERT_TRUE(individual.Insert(req.key, req.payload).ok());
        EXPECT_EQ(got.code, Status::Code::kOk);
        break;
      case kv::OpKind::kScan: {
        std::vector<Record> out;
        ASSERT_TRUE(individual.Scan(req.key, req.scan_count, &out).ok());
        ASSERT_EQ(got.records.size(), out.size()) << "op " << i;
        EXPECT_TRUE(std::equal(out.begin(), out.end(), got.records.begin()))
            << "op " << i;
        break;
      }
      case kv::OpKind::kReadModifyWrite: {
        bool found = false;
        ASSERT_TRUE(individual.ReadModifyWrite(req.key, req.payload, &found).ok());
        EXPECT_EQ(got.found, found) << "op " << i;
        break;
      }
      case kv::OpKind::kDelete:
        break;
    }
  }
}

TEST(EngineExecuteTest, SingleShardBatchIoMatchesPerOpIo) {
  // The bit-exactness pillar behind the redesign: on the paper-default
  // 1-shard configuration, dispatching N ops as one batch performs exactly
  // the counted I/O of N per-op calls (the per-shard group runs the same
  // ExecuteOnIndex sequence under one latch acquisition).
  const auto keys = UniformKeys(3000, 16);
  const auto records = ToRecords(keys);

  ShardedEngine batched(SmallEngine(1));
  ShardedEngine individual(SmallEngine(1));
  ASSERT_TRUE(batched.Bulkload(records).ok());
  ASSERT_TRUE(individual.Bulkload(records).ok());

  kv::RequestBatch batch;
  for (std::size_t i = 0; i < 300; ++i) {
    const Key key = keys[(i * 13) % keys.size()];
    if (i % 3 == 0) {
      batch.AddInsert(key, key + 3);
    } else if (i % 3 == 1) {
      batch.AddLookup(key);
    } else {
      batch.AddScan(key, 5);
    }
  }
  ASSERT_TRUE(batched.Execute(batch).ok());
  for (const kv::Request& req : batch.requests) {
    switch (req.kind) {
      case kv::OpKind::kLookup: {
        Payload payload = 0;
        bool found = false;
        ASSERT_TRUE(individual.Lookup(req.key, &payload, &found).ok());
        break;
      }
      case kv::OpKind::kInsert:
        ASSERT_TRUE(individual.Insert(req.key, req.payload).ok());
        break;
      case kv::OpKind::kScan: {
        std::vector<Record> out;
        ASSERT_TRUE(individual.Scan(req.key, req.scan_count, &out).ok());
        break;
      }
      default:
        FAIL();
    }
  }

  const IoStatsSnapshot batched_io = batched.MergedIo();
  const IoStatsSnapshot individual_io = individual.MergedIo();
  EXPECT_EQ(batched_io.reads, individual_io.reads);
  EXPECT_EQ(batched_io.writes, individual_io.writes);
  EXPECT_EQ(batched_io.buffer_hits, individual_io.buffer_hits);
  EXPECT_EQ(batched_io.buffer_misses, individual_io.buffer_misses);
}

TEST(EngineExecuteTest, CrossShardScanStitchesInBatch) {
  const auto keys = testing_util::SequentialKeys(1000);
  const auto records = ToRecords(keys);
  ShardedEngine engine(SmallEngine(4));
  ASSERT_TRUE(engine.Bulkload(records).ok());

  // A scan starting near the tail of shard 0 must continue into shard 1+.
  kv::RequestBatch batch;
  batch.AddScan(keys[240], 40);
  ASSERT_TRUE(engine.Execute(batch).ok());
  ASSERT_EQ(batch.responses[0].records.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(batch.responses[0].records[i].key, keys[240 + i]);
  }

  // Identical answer through the Scan wrapper.
  std::vector<Record> out;
  ASSERT_TRUE(engine.Scan(keys[240], 40, &out).ok());
  ASSERT_EQ(out.size(), 40u);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), batch.responses[0].records.begin()));
}

TEST(EngineExecuteTest, OversizedScanCountSaturates) {
  // The request carries a 32-bit scan_count; a larger std::size_t count must
  // saturate, not wrap (2^32 + 5 would read 5 records, 2^32 would read 0 and
  // be rejected).
  const auto keys = testing_util::SequentialKeys(100);
  ShardedEngine engine(SmallEngine(2));
  ASSERT_TRUE(engine.Bulkload(ToRecords(keys)).ok());
  std::vector<Record> out;
  for (const std::size_t count : {(std::size_t{1} << 32) + 5, std::size_t{1} << 32}) {
    ASSERT_TRUE(engine.Scan(keys[10], count, &out).ok()) << count;
    ASSERT_EQ(out.size(), 90u) << count;  // every key from keys[10], both shards
    EXPECT_EQ(out.front().key, keys[10]);
    EXPECT_EQ(out.back().key, keys[99]);
  }
  // The workload tape's translation saturates the same way.
  const WorkloadOp scan{WorkloadOp::Kind::kScan, keys[0], 0};
  EXPECT_EQ(ToRequest(scan, (std::size_t{1} << 32) + 5).scan_count,
            std::numeric_limits<std::uint32_t>::max());
}

TEST(EngineExecuteTest, DeleteRoundTripWithUpdateBuffer) {
  const auto records = ToRecords(UniformKeys(1000, 17));
  EngineOptions options = SmallEngine(2);
  options.index.update_buffer_blocks = 8;  // enables the delete path
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.Bulkload(records).ok());

  kv::RequestBatch batch;
  batch.AddDelete(records[10].key);
  batch.AddLookup(records[10].key);
  ASSERT_TRUE(engine.Execute(batch).ok());
  EXPECT_EQ(batch.responses[0].code, Status::Code::kOk);
  EXPECT_EQ(batch.responses[1].code, Status::Code::kNotFound);
  EXPECT_FALSE(batch.responses[1].found);
}

// --- RecoverFrom ------------------------------------------------------------

TEST(EngineRecoverTest, RecoverFromAnswersCommittedHistory) {
  const auto keys = UniformKeys(2000, 18);
  const auto records = ToRecords(keys);

  EngineOptions options = SmallEngine(3);
  options.index.durability = DurabilityPolicy::kGroupCommit;
  options.index.wal_group_window = 4;

  DurableStore store(options.index.block_size);
  options.durable_store = &store;

  {
    ShardedEngine engine(options);
    ASSERT_TRUE(engine.Bulkload(records).ok());
    kv::RequestBatch batch;
    for (std::size_t i = 0; i < 500; ++i) {
      batch.AddInsert(keys[i], keys[i] + 1000);
    }
    batch.AddDelete(keys[600]);
    ASSERT_TRUE(engine.Execute(batch).ok());
    // Graceful shutdown: checkpoint + WAL sync, then drop the engine.
    ASSERT_TRUE(engine.FlushUpdates().ok());
    ASSERT_TRUE(engine.FlushBuffers().ok());
  }

  ShardedEngine recovered(options);
  ShardedEngine::RecoverySummary summary;
  ASSERT_TRUE(recovered.RecoverFrom(&store, records, &summary).ok());
  EXPECT_FALSE(summary.torn_tail);

  kv::RequestBatch check;
  for (std::size_t i = 0; i < 500; ++i) check.AddLookup(keys[i]);
  check.AddLookup(keys[600]);
  check.AddLookup(keys[700]);
  ASSERT_TRUE(recovered.Execute(check).ok());
  for (std::size_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(check.responses[i].found) << "key " << i;
    EXPECT_EQ(check.responses[i].payload, keys[i] + 1000) << "key " << i;
  }
  EXPECT_EQ(check.responses[500].code, Status::Code::kNotFound);  // deleted
  EXPECT_TRUE(check.responses[501].found);                        // untouched
  EXPECT_EQ(check.responses[501].payload, PayloadFor(keys[700]));
}

TEST(EngineRecoverTest, RecoverFromRequiresDurability) {
  const auto records = ToRecords(UniformKeys(100, 19));
  DurableStore store(4096);
  ShardedEngine engine(SmallEngine(1));  // durability kNone
  ShardedEngine::RecoverySummary summary;
  EXPECT_EQ(engine.RecoverFrom(&store, records, &summary).code(),
            Status::Code::kFailedPrecondition);
}

}  // namespace
}  // namespace liod
