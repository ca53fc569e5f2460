// Durability pricing for the buffered write path: sweep DurabilityPolicy x
// update-buffer budget x checkpoint cadence over the update-heavy YCSB mixes
// (A: 50/50 read-update, F: read-modify-write) against the volatile baseline
// (--durability none, PR 4's write path).
//
// Expected shape: sync-per-op pays roughly one counted WAL write per update
// (the tail block is forced every operation); group-commit amortizes the
// same records to ~1/window of that, strictly fewer at bit-equal answers
// (every run executes with lookup checking on, and the measured window ends
// fully merged + checkpointed in all configurations). After the measured
// window each durable row stages an UNFLUSHED tail of inserts, crashes the
// index, and rebuilds it with RecoveryManager: replayed records (and so
// replay_ms, the modeled analysis time = analysis CPU + SSD read latency of
// every checkpoint/WAL block fetched) shrink as the checkpoint cadence
// tightens, because the WAL tail past the last checkpoint is all a recovery
// has to re-read.
//
// Output is CSV (one header), ready for plotting and for
// scripts/bench_to_json.py (tput_ops_s is SSD-modeled; wal_writes and
// replay_ms ride along as extra numeric columns).

#include <algorithm>
#include <memory>

#include "bench_common.h"
#include "recovery/durable_store.h"
#include "recovery/recovery_manager.h"
#include "updates/buffered_index.h"

using namespace liod;
using namespace liod::bench;

namespace {

struct SweepPoint {
  DurabilityPolicy durability;
  std::size_t buffer_blocks;   // update-buffer staging budget
  std::size_t checkpoint_every;  // 0 = checkpoint at merges/flush only
};

}  // namespace

int main(int argc, char** argv) {
  // Durability is the subject, not index breadth: default to the B+-tree
  // baseline plus ALEX (the strongest learned writer); pass --indexes to widen.
  const BenchArgs args = BenchArgs::Parse(argc, argv, {.indexes = {"btree", "alex"}});

  const WorkloadType workloads[] = {WorkloadType::kYcsbA, WorkloadType::kYcsbF};
  const SweepPoint points[] = {
      {DurabilityPolicy::kNone, 64, 0},  // volatile baseline: durability costs nothing
      {DurabilityPolicy::kAsync, 64, 0},
      {DurabilityPolicy::kGroupCommit, 64, 0},
      {DurabilityPolicy::kSyncPerOp, 64, 0},
      {DurabilityPolicy::kGroupCommit, 16, 0},
      {DurabilityPolicy::kSyncPerOp, 16, 0},
      {DurabilityPolicy::kGroupCommit, 64, 512},  // checkpoint cadence: replay shrinks
      {DurabilityPolicy::kGroupCommit, 64, 2048},
      {DurabilityPolicy::kGroupCommit, 64, 8192},
  };
  const DiskModel ssd = DiskModel::Ssd();

  std::printf(
      "index,dataset,workload,durability,buffer_blocks,checkpoint_every,disk,ops,"
      "tput_ops_s,reads_per_op,writes_per_op,wal_writes,merges,checkpoints,"
      "replayed_records,replay_ms,committed_tail\n");
  for (const auto& dataset : args.datasets) {
    for (WorkloadType type : workloads) {
      for (const auto& index_name : args.indexes) {
        for (const SweepPoint& point : points) {
          IndexOptions options = BenchOptions();
          options.update_buffer_blocks = point.buffer_blocks;
          options.durability = point.durability;
          options.checkpoint_every_ops = point.checkpoint_every;
          // The store outlives the engine: its slot 0 is what recovery reads
          // after the simulated crash below.
          DurableStore store(options.block_size);
          const bool durable = options.durability != DurabilityPolicy::kNone;
          auto engine = std::make_unique<ShardedEngine>(EngineOptions{
              .index_name = index_name, .index = options, .durable_store = &store});
          const bool grows = WorkloadGrowsDataset(type);
          const std::size_t dataset_keys =
              grows ? args.write_bulk + args.write_ops : args.write_bulk;
          const auto keys = MakeDataset(dataset, dataset_keys, args.seed);
          WorkloadSpec spec;
          spec.type = type;
          spec.bulk_keys = args.write_bulk;
          spec.operations = args.write_ops;
          spec.seed = args.seed + 7;
          const ConcurrentWorkload w = BuildConcurrentWorkload(keys, spec, 1);
          ConcurrentRunnerConfig config;
          config.check_lookups = true;  // all policies must answer identically
          const ConcurrentRunResult result = MustRun(engine.get(), w, config);

          std::uint64_t merges = 0, checkpoints = 0, base_lsn = 0;
          auto* buffered = dynamic_cast<UpdateBufferedIndex*>(engine->shard(0));
          if (buffered != nullptr) {
            merges = buffered->merges_completed();
            checkpoints = buffered->checkpoints_written();
            base_lsn = buffered->wal_last_lsn();
          }

          // Crash + recover (durable rows): an unflushed tail of inserts,
          // then a rebuild from the slot. Replay length tracks the WAL tail
          // past the last checkpoint.
          std::uint64_t replayed = 0, committed = 0;
          double replay_ms = 0.0;
          if (durable) {
            const std::size_t tail = std::min<std::size_t>(w.bulk.size(), 5000);
            for (std::size_t i = 0; i < tail; ++i) {
              const Status status = engine->Insert(w.bulk[i].key, w.bulk[i].key + 977);
              if (!status.ok()) {
                std::fprintf(stderr, "FATAL tail insert on %s: %s\n", index_name.c_str(),
                             status.ToString().c_str());
                return 1;
              }
            }
            engine.reset();  // crash: no flush, no final checkpoint
            RecoveryResult recovered;
            const Status status =
                RecoveryManager::Recover(store.slot(0), index_name, options, w.bulk, &recovered);
            replay_ms = recovered.ReplayMicros(ssd) / 1000.0;
            if (!status.ok()) {
              std::fprintf(stderr, "FATAL recovery on %s: %s\n", index_name.c_str(),
                           status.ToString().c_str());
              return 1;
            }
            replayed = recovered.replayed_records;
            committed = std::min<std::uint64_t>(
                tail, recovered.max_lsn > base_lsn ? recovered.max_lsn - base_lsn : 0);
            for (std::uint64_t i = 0; i < committed; ++i) {
              Payload payload = 0;
              bool found = false;
              const Status lookup =
                  recovered.index->Lookup(w.bulk[i].key, &payload, &found);
              if (!lookup.ok() || !found || payload != w.bulk[i].key + 977) {
                std::fprintf(stderr, "FATAL %s: recovered answer wrong at tail op %llu\n",
                             index_name.c_str(), static_cast<unsigned long long>(i));
                return 1;
              }
            }
          }

          const double ops =
              result.operations == 0 ? 1.0 : static_cast<double>(result.operations);
          std::printf(
              "%s,%s,%s,%s,%zu,%zu,ssd,%llu,%.1f,%.3f,%.3f,%llu,%llu,%llu,%llu,%.3f,"
              "%llu\n",
              index_name.c_str(), dataset.c_str(), WorkloadTypeName(type),
              DurabilityPolicyName(point.durability), point.buffer_blocks,
              point.checkpoint_every,
              static_cast<unsigned long long>(result.operations),
              result.ThroughputOps(ssd),
              static_cast<double>(result.io.TotalReads()) / ops,
              static_cast<double>(result.io.TotalWrites()) / ops,
              static_cast<unsigned long long>(result.io.WritesFor(FileClass::kWal)),
              static_cast<unsigned long long>(merges),
              static_cast<unsigned long long>(checkpoints),
              static_cast<unsigned long long>(replayed), replay_ms,
              static_cast<unsigned long long>(committed));
        }
      }
    }
  }
  return 0;
}
